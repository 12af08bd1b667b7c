//! Cross-crate integration: LibASL end-to-end behaviour over the
//! facade. Class shares and the epoch controller run on the simulated
//! M1, where they are exact on any host; the counting test runs real
//! OS threads, because its point is mutual exclusion under true
//! concurrency.

use std::sync::Arc;

use libasl::core::config;
use libasl::epoch;
use libasl::locks::McsLock;
use libasl::runtime::registry::{is_big_core, register_on_core};
use libasl::runtime::topology::CoreId;
use libasl::runtime::Topology;
use libasl::sim::exec::{run_threads, ZooConfig};
use libasl::sim::zoo::{run_lock, ZooResult};
use libasl::{AslSpinLock, Mutex};

#[test]
fn facade_mutex_counts_correctly_across_classes() {
    let topo = Topology::apple_m1();
    let m = Mutex::new(0u64);
    let per_thread = 5_000u64;
    std::thread::scope(|s| {
        for core in 0..topo.len() {
            let (topo, m) = (&topo, &m);
            s.spawn(move || {
                register_on_core(topo, CoreId(core));
                for _ in 0..per_thread {
                    *m.lock() += 1;
                }
            });
        }
    });
    assert_eq!(*m.lock(), topo.len() as u64 * per_thread);
}

/// Eight virtual threads on a 4 + 4 machine, little cores 3x slower,
/// cycling a 400-unit critical section and 100 units of think time for
/// two virtual milliseconds.
fn contended(slo_ns: Option<u64>) -> ZooConfig {
    ZooConfig {
        cs_units: 400,
        ncs_units: 100,
        duration_ns: 2_000_000,
        slo_ns,
        ..ZooConfig::quick(Topology::custom(4, 4, 3.0), 8, 1)
    }
}

/// The big class's share of the acquisitions.
fn big_share(r: &ZooResult) -> f64 {
    r.run.big_ops as f64 / r.run.total_ops as f64
}

#[test]
fn big_cores_win_more_acquisitions_under_contention() {
    // With maximum reordering (no epochs), big cores complete clearly
    // more critical sections than little cores.
    let lock = Arc::new(AslSpinLock::default());
    let r = run_lock(&contended(None), lock.clone());
    let (b, l) = (r.run.big_ops, r.run.little_ops);
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
    let asl = run_lock(&contended(Some(0)), Arc::new(AslSpinLock::default()));
    let mcs = run_lock(&contended(None), Arc::new(McsLock::new()));
    let (asl_share, mcs_share) = (big_share(&asl), big_share(&mcs));
    assert!(
        (asl_share - mcs_share).abs() < 0.05,
        "SLO-0 LibASL big-share {asl_share:.2} should be near FIFO's {mcs_share:.2}"
    );
}

/// Run `body` on every little core of the simulated M1.
fn on_little_cores(body: impl Fn(usize) + Send + Sync) {
    run_threads(&ZooConfig::quick(Topology::apple_m1(), 8, 1), |tid| {
        if !is_big_core() {
            body(tid);
        }
    });
}

#[test]
fn nested_epochs_inner_priority() {
    // §3.4: nested epochs — the inner epoch's window is the one the
    // dispatch layer consults.
    on_little_cores(|_| {
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
}

#[test]
fn config_pct_affects_growth_unit() {
    on_little_cores(|_| {
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
}
