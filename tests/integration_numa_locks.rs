//! Cross-crate integration tests for the §2.2/§5 comparator locks
//! (CNA, cohort, Malthusian, shuffle framework, delegation) driven
//! through the public facade.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use libasl::harness::locks::LockSpec;
use libasl::locks::api::DynLock;
use libasl::locks::rcl::RclLock;
use libasl::locks::shuffle::PreferBigPolicy;
use libasl::locks::ShuffleLock;
use libasl::runtime::clock::now_ns;
use libasl::runtime::registry::register_on_core;
use libasl::runtime::spawn::run_on_topology_with_stop;
use libasl::runtime::topology::CoreId;
use libasl::runtime::work::execute_units;
use libasl::runtime::CoreKind;
use libasl::Topology;

/// Non-atomic counter whose correctness requires mutual exclusion.
#[derive(Default)]
struct RacyCounter(std::cell::UnsafeCell<u64>);
// SAFETY: test-only; accessed under the lock under test.
unsafe impl Sync for RacyCounter {}
unsafe impl Send for RacyCounter {}

impl RacyCounter {
    fn bump(&self) {
        unsafe { *self.0.get() += 1 }
    }
    fn get(&self) -> u64 {
        unsafe { *self.0.get() }
    }
}

/// Hammer one lock spec from all 8 cores of an emulated M1.
fn hammer_spec(spec: &LockSpec, iters: u64) {
    let topo = Topology::apple_m1();
    let lock = spec.make_dyn();
    let counter = Arc::new(RacyCounter::default());
    let mut handles = vec![];
    for i in 0..8usize {
        let topo = topo.clone();
        let lock = lock.clone();
        let counter = counter.clone();
        handles.push(std::thread::spawn(move || {
            register_on_core(&topo, CoreId(i));
            for _ in 0..iters {
                let _held = lock.lock();
                counter.bump();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.get(), 8 * iters, "{} lost updates", spec.label());
    assert!(!lock.is_locked(), "{} left held", spec.label());
}

#[test]
fn cna_mutual_exclusion_mixed_classes() {
    hammer_spec(&LockSpec::Cna, 10_000);
}

#[test]
fn cohort_mutual_exclusion_mixed_classes() {
    hammer_spec(&LockSpec::Cohort, 10_000);
}

#[test]
fn malthusian_mutual_exclusion_mixed_classes() {
    hammer_spec(&LockSpec::Malthusian(None), 10_000);
}

#[test]
fn shuffle_class_local_mutual_exclusion_mixed_classes() {
    hammer_spec(&LockSpec::ShuffleClassLocal { max_skips: 8 }, 10_000);
}

#[test]
fn prefer_big_policy_skews_acquisition_share() {
    // Equal-speed classes so the *policy*, not core speed, sets the
    // share: prefer-big with a generous skip bound must give big
    // cores clearly more than half the acquisitions, without
    // starving little cores.
    let topo = Topology::custom(2, 2, 1.0);
    let lock = DynLock::of(ShuffleLock::new(PreferBigPolicy::new(64)));
    let big_ops = Arc::new(AtomicU64::new(0));
    let little_ops = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let stopper = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            stop.store(true, Ordering::Relaxed);
        })
    };
    {
        let lock = lock.clone();
        let big_ops = big_ops.clone();
        let little_ops = little_ops.clone();
        run_on_topology_with_stop(&topo, 4, false, stop, move |ctx| {
            let ctr = if ctx.assignment.kind == CoreKind::Big {
                &big_ops
            } else {
                &little_ops
            };
            while !ctx.stopped() {
                {
                    let _held = lock.lock();
                    execute_units(400);
                }
                ctr.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    stopper.join().unwrap();
    let b = big_ops.load(Ordering::Relaxed) as f64;
    let l = little_ops.load(Ordering::Relaxed) as f64;
    assert!(l > 0.0, "little cores starved outright");
    let share = b / (b + l);
    assert!(
        share > 0.55,
        "prefer-big share only {share:.2} (big={b} little={l})"
    );
}

#[test]
fn delegation_executes_at_server_speed() {
    // One big core (server) + one very slow little core (client,
    // 50x). Delegated critical sections run on the server, so the
    // client completes its batch far faster than executing the same
    // work locally.
    let topo = Topology::custom(1, 1, 50.0);
    const OPS: u64 = 40;
    const UNITS: u64 = 20_000;

    let srv = RclLock::new(0u64, |acc: &mut u64, _op: u64| {
        execute_units(UNITS);
        *acc += 1;
        *acc
    });
    let server_thread = {
        let srv = srv.clone();
        let topo = topo.clone();
        std::thread::spawn(move || {
            register_on_core(&topo, CoreId(0)); // big: executes fast
            srv.serve();
        })
    };

    let handle = srv.register();
    let delegated_ns = {
        let topo = topo.clone();
        std::thread::spawn(move || {
            register_on_core(&topo, CoreId(1)); // little client
            let t0 = now_ns();
            for _ in 0..OPS {
                handle.apply(0);
            }
            now_ns() - t0
        })
        .join()
        .unwrap()
    };

    let local_ns = {
        let topo = topo.clone();
        std::thread::spawn(move || {
            register_on_core(&topo, CoreId(1)); // little, executing locally
            let t0 = now_ns();
            for _ in 0..OPS {
                execute_units(UNITS);
            }
            now_ns() - t0
        })
        .join()
        .unwrap()
    };

    srv.shutdown();
    server_thread.join().unwrap();

    assert!(
        delegated_ns * 5 < local_ns,
        "delegation did not run at server speed: delegated {delegated_ns}ns vs local {local_ns}ns"
    );
}
