//! Sampled hold timing on the simulated machine: the estimate is right,
//! the jitter is what makes it right, and the timed set repeats.
//!
//! `Instrumented` times one exclusive hold in
//! `HOLD_SAMPLE_STRIDE`, chosen by a jittered holder-owned countdown
//! (`TelemetryCell::sample_hold_start`). In virtual time every hold
//! has an exact length and every run repeats, so the claims are exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asl_locks::api::DynLock;
use asl_locks::telemetry::{Instrumented, TelemetryCell, HOLD_SAMPLE_STRIDE};
use asl_locks::{McsLock, RawLock};
use asl_runtime::work::execute_units;
use asl_runtime::Topology;
use asl_sim::exec::{run_threads, ZooConfig};
use asl_sim::zoo::run_lock;

/// The reference and the mutant: an MCS lock that times every
/// `stride`-th hold, counted from the first. `stride` 1 is the census
/// the sample estimates; `stride` [`HOLD_SAMPLE_STRIDE`] is
/// `sample_hold_start` with its jitter taken out.
struct EveryNth {
    inner: McsLock,
    cell: TelemetryCell,
    stride: u64,
    grants: AtomicU64,
}

impl EveryNth {
    fn new(stride: u64) -> Self {
        EveryNth {
            inner: McsLock::new(),
            cell: TelemetryCell::sampled(),
            stride,
            grants: AtomicU64::new(0),
        }
    }
}

impl RawLock for EveryNth {
    type Token = <McsLock as RawLock>::Token;
    fn lock(&self) -> Self::Token {
        let token = self.inner.lock();
        if self.grants.fetch_add(1, Ordering::Relaxed) % self.stride == 0 {
            self.cell.note_hold_start();
        }
        token
    }
    fn try_lock(&self) -> Option<Self::Token> {
        unreachable!("the workload only locks")
    }
    fn unlock(&self, token: Self::Token) {
        self.cell.note_hold_end();
        self.inner.unlock(token);
    }
    fn is_locked(&self) -> bool {
        self.inner.is_locked()
    }
    const NAME: &'static str = "every-nth";
}

/// `GRANTS` holds by one virtual thread, every `PERIOD`-th a hundred
/// times the length of the rest: dbsim's SQLite, whose every 1000th
/// operation is a scan.
const GRANTS: u64 = 400_000;
const PERIOD: u64 = 1_000;
const SHORT_UNITS: u64 = 50;

fn periodic_workload(lock: &impl RawLock) {
    let cfg = ZooConfig::quick(Topology::symmetric(1), 1, 42);
    run_threads(&cfg, |_| {
        for grant in 0..GRANTS {
            let token = lock.lock();
            let long = grant % PERIOD == PERIOD - 1;
            execute_units(if long { 100 * SHORT_UNITS } else { SHORT_UNITS });
            lock.unlock(token);
        }
    });
}

#[test]
fn the_sampled_mean_is_the_census_mean_and_a_fixed_stride_is_not() {
    let census = EveryNth::new(1);
    periodic_workload(&census);
    let census = census.cell.snapshot();
    assert_eq!(census.timed_holds, GRANTS);
    let truth = census.avg_hold_ns();
    // One hold in 1000 is 100x: the mean is 1.099 short holds, plus
    // the opening clock read (8 virtual ns) every timed hold contains.
    let expected = 1.099 * SHORT_UNITS as f64 + 8.0;
    assert!((truth - expected).abs() < 0.01, "{truth}");

    let sampled = Instrumented::sampled(DynLock::of(McsLock::new()));
    periodic_workload(&sampled);
    let s = sampled.telemetry().snapshot();
    assert_eq!(s.acquisitions, GRANTS);
    let share = GRANTS as f64 / s.timed_holds as f64;
    assert!(
        (share / HOLD_SAMPLE_STRIDE as f64 - 1.0).abs() < 0.02,
        "one hold in {share:.2} timed"
    );
    let off = s.avg_hold_ns() / truth - 1.0;
    assert!(off.abs() < 0.05, "sampled mean {:.1}% off", off * 100.0);

    // The mutant: the same sample size on a fixed stride. 32 and 1000
    // share a factor of 8, so a strided timer meets the long hold
    // either never (here: it times even grants, the long ones are odd)
    // and reports the short hold as the mean, 8 % under, or — had the
    // scan been every grant 0 mod 1000 — at one timed hold in 125
    // instead of one in 1000, 55 % over. No stride is safe against
    // every period; a draw per gap is.
    let strided = EveryNth::new(HOLD_SAMPLE_STRIDE);
    periodic_workload(&strided);
    let m = strided.cell.snapshot();
    assert_eq!(m.timed_holds, GRANTS / HOLD_SAMPLE_STRIDE);
    let off = m.avg_hold_ns() / truth - 1.0;
    assert!(off < -0.05, "fixed stride only {:.1}% off", off * 100.0);
}

#[test]
fn one_seed_times_the_same_holds_twice() {
    let run = || {
        let cell = Arc::new(TelemetryCell::sampled());
        let lock = Instrumented::with_cell(DynLock::of(McsLock::new()), cell.clone());
        let cfg = ZooConfig::quick(Topology::apple_m1(), 6, 42);
        let result = run_lock(&cfg, Arc::new(lock));
        (cell.snapshot(), result.grants, result.run.virtual_ns)
    };
    let (a, b) = (run(), run());
    assert!(a.0.timed_holds > 0 && a.0.hold_ns > 0 && a.0.wait_ns > 0);
    assert_eq!(a.0.acquisitions, a.1.len() as u64);
    assert_eq!(a, b, "same seed: same timed set, same sums, same grants");
}
