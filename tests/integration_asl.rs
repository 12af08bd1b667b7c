//! Cross-crate integration: LibASL end-to-end behaviour on real
//! threads over the emulated AMP.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use libasl::core::config;
use libasl::epoch;
use libasl::locks::RawLock;
use libasl::runtime::spawn::run_on_topology_with_stop;
use libasl::runtime::work::execute_units;
use libasl::runtime::{CoreKind, Topology};
use libasl::{AslSpinLock, Mutex};

fn timed_stop(ms: u64) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let stop = Arc::new(AtomicBool::new(false));
    let s2 = stop.clone();
    let h = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(ms));
        s2.store(true, Ordering::Relaxed);
    });
    (stop, h)
}

#[test]
fn facade_mutex_counts_correctly_across_classes() {
    let topo = Topology::apple_m1();
    let m = Arc::new(Mutex::new(0u64));
    let m2 = m.clone();
    let per_thread = 5_000u64;
    run_on_topology_with_stop(
        &topo,
        8,
        false,
        Arc::new(AtomicBool::new(false)),
        move |_ctx| {
            for _ in 0..per_thread {
                *m2.lock() += 1;
            }
        },
    );
    assert_eq!(*m.lock(), 8 * per_thread);
}

#[test]
fn big_cores_win_more_acquisitions_under_contention() {
    // With maximum reordering (no epochs), big cores should complete
    // clearly more critical sections than little cores.
    let topo = Topology::custom(4, 4, 3.0);
    let lock = Arc::new(AslSpinLock::default());
    let big_ops = Arc::new(AtomicU64::new(0));
    let little_ops = Arc::new(AtomicU64::new(0));
    let (stop, stopper) = timed_stop(400);
    {
        let lock = lock.clone();
        let big_ops = big_ops.clone();
        let little_ops = little_ops.clone();
        run_on_topology_with_stop(&topo, 8, false, stop, move |ctx| {
            epoch::reset_thread_epochs();
            let ctr = if ctx.assignment.kind == CoreKind::Big {
                &big_ops
            } else {
                &little_ops
            };
            while !ctx.stopped() {
                let t = lock.lock();
                execute_units(400); // contended critical section
                lock.unlock(t);
                ctr.fetch_add(1, Ordering::Relaxed);
                execute_units(100);
            }
        });
    }
    stopper.join().unwrap();
    let b = big_ops.load(Ordering::Relaxed);
    let l = little_ops.load(Ordering::Relaxed);
    assert!(
        l > 0,
        "no starvation: little cores must progress (bound = max window)"
    );
    assert!(
        b > l * 2,
        "expected strong big-core priority, got big={b} little={l}"
    );

    // Every little-core acquisition took exactly one standby path; the
    // big cores' took none (theirs is the inner lock's own acquire).
    let s = lock.stats().snapshot();
    assert_eq!(s.standby_total(), l, "little cores use the standby path");
}

#[test]
fn zero_slo_behaves_like_fifo() {
    // With SLO 0 every epoch violates, windows collapse to zero, and
    // the acquisition split approaches the FIFO lock's.
    let topo = Topology::custom(4, 4, 3.0);

    let run = |use_asl: bool| -> (u64, u64) {
        let asl = Arc::new(AslSpinLock::default());
        let mcs = Arc::new(libasl::locks::McsLock::new());
        let big_ops = Arc::new(AtomicU64::new(0));
        let little_ops = Arc::new(AtomicU64::new(0));
        let (stop, stopper) = timed_stop(300);
        {
            let asl = asl.clone();
            let mcs = mcs.clone();
            let big_ops = big_ops.clone();
            let little_ops = little_ops.clone();
            run_on_topology_with_stop(&topo, 8, false, stop, move |ctx| {
                epoch::reset_thread_epochs();
                let ctr = if ctx.assignment.kind == CoreKind::Big {
                    &big_ops
                } else {
                    &little_ops
                };
                while !ctx.stopped() {
                    if use_asl {
                        epoch::epoch_start(0);
                        let t = asl.lock();
                        execute_units(400);
                        asl.unlock(t);
                        epoch::epoch_end(0, 0); // SLO 0: always violated
                    } else {
                        let t = mcs.lock();
                        execute_units(400);
                        mcs.unlock(t);
                    }
                    ctr.fetch_add(1, Ordering::Relaxed);
                    execute_units(100);
                }
            });
        }
        stopper.join().unwrap();
        (
            big_ops.load(Ordering::Relaxed),
            little_ops.load(Ordering::Relaxed),
        )
    };

    let (asl_big, asl_little) = run(true);
    let (mcs_big, mcs_little) = run(false);
    let asl_share = asl_big as f64 / (asl_big + asl_little) as f64;
    let mcs_share = mcs_big as f64 / (mcs_big + mcs_little) as f64;
    assert!(
        (asl_share - mcs_share).abs() < 0.25,
        "SLO-0 LibASL big-share {asl_share:.2} should be near FIFO's {mcs_share:.2}"
    );
}

#[test]
fn nested_epochs_inner_priority() {
    // §3.4: nested epochs — the inner epoch's window is the one the
    // dispatch layer consults.
    let topo = Topology::apple_m1();
    let (stop, stopper) = timed_stop(50);
    run_on_topology_with_stop(&topo, 8, false, stop, |ctx| {
        if ctx.assignment.kind != CoreKind::Little {
            return;
        }
        epoch::reset_thread_epochs();
        epoch::set_epoch_window(1, 111);
        epoch::set_epoch_window(2, 222);
        epoch::epoch_start(1);
        assert_eq!(epoch::current_window(), Some(111));
        epoch::epoch_start(2);
        assert_eq!(epoch::current_window(), Some(222), "inner epoch wins");
        epoch::epoch_end(2, u64::MAX);
        assert_eq!(epoch::current_window(), Some(111), "outer restored");
        epoch::epoch_end(1, u64::MAX);
        assert_eq!(epoch::current_window(), None);
    });
    stopper.join().unwrap();
}

#[test]
fn config_pct_affects_growth_unit() {
    let topo = Topology::apple_m1();
    let (stop, stopper) = timed_stop(50);
    run_on_topology_with_stop(&topo, 8, false, stop, |ctx| {
        if ctx.assignment.kind != CoreKind::Little || ctx.index != 4 {
            return;
        }
        epoch::reset_thread_epochs();
        epoch::set_epoch_window(3, 100_000);
        epoch::epoch_start(3);
        epoch::epoch_end(3, 0); // miss: a quarter off, whatever PCT is
        assert_eq!(epoch::epoch_meta(3).window, 75_000);
        // Hit: the step aims at 0.75 x (100 - PCT) % misses, i.e.
        // p / (4 x (10 000 - p)) of the window with p = 75 x (100 - PCT)
        // (PCT = 99: 75 / 39 700).
        let p = 75 * (100 - u64::from(config::PCT));
        epoch::with_epoch(3, u64::MAX, || ());
        assert_eq!(
            epoch::epoch_meta(3).window,
            75_000 + 75_000 * p / (4 * (10_000 - p))
        );
    });
    stopper.join().unwrap();
}

#[test]
fn reorderable_lock_starvation_bound_holds_under_load() {
    // A little-core thread with the max window must still acquire
    // within (roughly) max_window + queue drain time even under
    // constant big-core pressure.
    let topo = Topology::custom(4, 4, 3.0);
    let mut lock = AslSpinLock::default();
    lock.set_max_window_ns(5_000_000); // 5 ms bound for the test
    let lock = Arc::new(lock);
    let little_max_wait = Arc::new(AtomicU64::new(0));
    let (stop, stopper) = timed_stop(400);
    {
        let lock = lock.clone();
        let little_max_wait = little_max_wait.clone();
        run_on_topology_with_stop(&topo, 8, false, stop, move |ctx| {
            epoch::reset_thread_epochs();
            while !ctx.stopped() {
                let t0 = libasl::runtime::clock::now_ns();
                let t = lock.lock();
                execute_units(300);
                lock.unlock(t);
                let waited = libasl::runtime::clock::now_ns() - t0;
                if ctx.assignment.kind == CoreKind::Little {
                    little_max_wait.fetch_max(waited, Ordering::Relaxed);
                }
            }
        });
    }
    stopper.join().unwrap();
    let worst = little_max_wait.load(Ordering::Relaxed);
    assert!(worst > 0, "little cores acquired at least once");
    // The wall-clock bound (max window + queue drain) only holds when
    // the 8 threads truly run in parallel; oversubscribed, a waiter
    // can sit preempted for arbitrarily many scheduler quanta. The
    // exact, ungated bound is asserted in the simulator instead
    // (`crates/sim/tests/ungated.rs`,
    // `reorderable_starvation_bound_holds_exactly`), where virtual
    // time has no preemption accidents.
}
