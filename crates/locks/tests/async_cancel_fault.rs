//! Async cancel-safety under fault injection (ISSUE 10 satellite).
//!
//! The dangerous window: an `AsyncMutex` waiter has been *granted*
//! the lock (releaser stored `W_GRANTED` and called its waker) but
//! the future is dropped before it is ever polled again. If the drop
//! path leaked that grant, the lock would be held forever by a ghost.
//! Here the window is stretched adversarially — the waker itself is
//! stalled by a [`FaultInjector`] (every relax poll it makes may
//! inject a holder-preemption stall, and clock reads may jump) — and
//! the lock must still pass on to the next waiter.
//!
//! All tests hand-poll with explicit wakers, so the schedule is
//! deterministic; the injector perturbs *timing inside the window*,
//! not the order of operations.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use asl_locks::asynclock::{AsyncMutex, AsyncPolicy};
use asl_runtime::fault::{FaultInjector, FaultPlan, FaultState};
use asl_runtime::relax::Spin;

/// A waker that simulates being preempted mid-wake: on every wake it
/// spins through the substrate (where the installed injector can
/// stall it) before recording the wake.
struct StalledWaker {
    wakes: AtomicUsize,
}

impl Wake for StalledWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        let mut spin = Spin::new();
        for _ in 0..32 {
            spin.relax();
        }
        self.wakes.fetch_add(1, Ordering::SeqCst);
    }
}

fn stalled_waker() -> (Arc<StalledWaker>, Waker) {
    let sw = Arc::new(StalledWaker {
        wakes: AtomicUsize::new(0),
    });
    let waker = Waker::from(sw.clone());
    (sw, waker)
}

fn poll_once<F: Future>(fut: &mut Pin<Box<F>>, waker: &Waker) -> Poll<F::Output> {
    fut.as_mut().poll(&mut Context::from_waker(waker))
}

/// The grant window does not depend on the wake order: both run.
const POLICIES: [AsyncPolicy; 2] = [AsyncPolicy::Fifo, AsyncPolicy::Slo { slo_ns: 100_000 }];

/// A heavy schedule: stalls fire every 4th poll, parks return
/// spuriously, the clock jumps forward on ~1 read in 8.
fn adversarial_state(seed: u64) -> Arc<FaultState> {
    FaultState::new(
        FaultPlan::stalls(seed, 4, 2_000)
            .with_spurious(2)
            .with_clock_jumps(8, 5_000),
    )
}

/// Drop a future in the granted-but-unclaimed window while the waker
/// is being stalled by the injector: the grant must pass on to the
/// next waiter, not leak.
#[test]
fn drop_in_granted_window_passes_lock_on() {
    let state = adversarial_state(71);
    let _guard = FaultInjector::install_over_os(&state);

    for policy in POLICIES {
        let mutex = AsyncMutex::new(policy, 0u32);
        let (wb, waker_b) = stalled_waker();
        let (wc, waker_c) = stalled_waker();

        // A takes the lock outright.
        let mut fut_a = Box::pin(mutex.lock());
        let Poll::Ready(guard_a) = poll_once(&mut fut_a, &waker_b) else {
            panic!("uncontended lock must be immediate");
        };

        // B and C queue behind it.
        let mut fut_b = Box::pin(mutex.lock());
        assert!(poll_once(&mut fut_b, &waker_b).is_pending());
        let mut fut_c = Box::pin(mutex.lock());
        assert!(poll_once(&mut fut_c, &waker_c).is_pending());
        assert_eq!(mutex.waiters(), 2);

        // Release: B is granted and its (stalled) waker runs.
        drop(guard_a);
        assert_eq!(wb.wakes.load(Ordering::SeqCst), 1);
        assert!(mutex.is_locked(), "lock is held by the grant to B");

        // B's task is cancelled inside the W_GRANTED window — it never
        // polls again. The grant must move on to C, through C's equally
        // stalled waker.
        drop(fut_b);
        assert_eq!(wc.wakes.load(Ordering::SeqCst), 1, "C must be woken");
        let Poll::Ready(guard_c) = poll_once(&mut fut_c, &waker_c) else {
            panic!("C was granted; its poll must claim the lock");
        };
        assert!(mutex.is_locked());
        assert_eq!(mutex.waiters(), 0);

        drop(guard_c);
        assert!(!mutex.is_locked(), "no ghost holder after the cancel");
    }

    // The window was genuinely stretched: the injector stalled the
    // wakers' relax polls.
    let stats = state.stats();
    assert!(
        stats.poll_stalls > 0,
        "schedule never stalled a waker: {stats:?}"
    );
}

/// Churn the granted-window cancellation: every iteration a waiter is
/// granted, cancelled unclaimed, and the lock must come back free.
#[test]
fn repeated_granted_window_cancels_never_leak() {
    let state = adversarial_state(72);
    let _guard = FaultInjector::install_over_os(&state);

    for policy in POLICIES {
        let mutex = AsyncMutex::new(policy, ());
        for round in 0..100 {
            let (_w, waker) = stalled_waker();
            let mut holder = Box::pin(mutex.lock());
            let Poll::Ready(held) = poll_once(&mut holder, &waker) else {
                panic!("{policy:?} round {round}: free lock must grant immediately");
            };
            let mut waiter = Box::pin(mutex.lock());
            assert!(poll_once(&mut waiter, &waker).is_pending());

            // Grant lands on `waiter` while it sits unpolled…
            drop(held);
            // …and the cancelled future must hand the lock back.
            drop(waiter);
            assert!(
                !mutex.is_locked(),
                "{policy:?} round {round}: grant leaked to a cancelled future"
            );
            assert_eq!(
                mutex.waiters(),
                0,
                "{policy:?} round {round}: waiter leaked"
            );
        }
    }
}
