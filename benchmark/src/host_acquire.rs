//! `host-acquire`: the uncontended acquire+release ladder, in host
//! time.
//!
//! One thread, no contention: what is measured is the real instruction
//! cost of each wrapper layer between a caller and the lock — static
//! `McsLock` → `dyn` facade → instrumentation gate off / on → `gcr`
//! admission → `pthread` → LibASL without and inside an epoch → timed
//! acquisition — which the simulator's cost model cannot see (and the
//! simulated workloads bypass).
//!
//! Noise discipline: every rung is timed in batches of
//! [`BATCH_OPS`] operations, the rungs take turns batch by batch so a
//! noisy episode on the host hits all of them alike, and the gated
//! statistic is the lower decile of the batch means.

use std::hint::black_box;
use std::time::Instant;

use asl_harness::locks::LockSpec;
use asl_locks::api::{DynLock, Guard};
use asl_locks::{telemetry, McsLock, RawLock, RawTimedLock};
use asl_runtime::clock::now_ns;

use crate::metrics::{Clock, EndToEndValues, Metric, ACQUIRE_RUNGS};
use crate::stats::{geomean, Batches};
use crate::trace::{self, ThreadLog};
use crate::workload::{
    overhead_share, speed_factor, timed_setup, Layers, Outcome, SetupTime, REFERENCE_UNIT_NS,
};

/// Operations per timed batch.
pub const BATCH_OPS: u64 = 20_000;
/// Work units per operation of the work-unit calibration rung.
const WORK_UNITS_PER_OP: u64 = 100;
/// The SLO the in-epoch rung annotates its epochs with.
const EPOCH_SLO_NS: u64 = 60_000;
/// Pinned budget for the ladder's geometric mean (`latency_over_slo`
/// on this workload is `ladder_geomean_ns` over this): about 1.5× the
/// seed value, so the ratio sits near 0.65 at the seed.
pub const LADDER_BUDGET_NS: f64 = 64.0;
/// The rung whose cost is the workload's headline.
const HEADLINE: &str = "libasl_epoch";
/// The FIFO baseline behind the same `dyn` facade as the headline.
const BASELINE: &str = "dyn_mcs";
/// Building nine lock objects takes microseconds: batch the builds.
const SETUP_REPS: usize = 21;
const SETUP_BUILDS: usize = 100;

/// One prepared rung: each call runs one batch and returns
/// `(mean ns per op, ops that failed)`.
type Leg = Box<dyn FnMut() -> (f64, u64)>;

/// Time batches of `op`; the loop is monomorphized per rung so the
/// measured path has no benchmark-side indirection in it. `op`
/// returns whether the operation succeeded.
fn leg(mut op: impl FnMut() -> bool + 'static) -> Leg {
    Box::new(move || {
        let mut failed = 0;
        let t0 = Instant::now();
        for _ in 0..BATCH_OPS {
            failed += u64::from(!op());
        }
        let ns = t0.elapsed().as_nanos() as f64;
        (ns / BATCH_OPS as f64, failed)
    })
}

fn dyn_leg(lock: DynLock) -> Leg {
    leg(move || {
        let _held = lock.lock();
        true
    })
}

/// One lock object per rung.
struct Locks {
    static_mcs: McsLock,
    dyn_mcs: DynLock,
    instr_off: DynLock,
    instr_on: DynLock,
    gcr: DynLock,
    pthread: DynLock,
    libasl_max: DynLock,
    libasl_epoch: DynLock,
    timed_mcs: McsLock,
}

fn build_locks() -> Locks {
    let make = |name: &str| {
        name.parse::<LockSpec>()
            .expect("rung names are registry names")
            .make_dyn()
    };
    // The instr-on lock is built (like it is measured) under profiling,
    // so its telemetry cell samples hold and wait times.
    telemetry::set_profiling(true);
    let instr_on = make("instrumented-mcs");
    telemetry::set_profiling(false);
    Locks {
        static_mcs: McsLock::new(),
        dyn_mcs: make("mcs"),
        instr_off: make("instrumented-mcs"),
        instr_on,
        gcr: make("gcr-mcs"),
        pthread: make("pthread"),
        libasl_max: make("libasl-max"),
        libasl_epoch: make("libasl-60us"),
        timed_mcs: McsLock::new(),
    }
}

/// The ladder's legs in [`ACQUIRE_RUNGS`] order, then the two runtime
/// calibration legs (`clock_now`, `work_unit`).
fn legs(l: Locks) -> Vec<(&'static str, Leg)> {
    let Locks {
        static_mcs,
        libasl_epoch: in_epoch,
        timed_mcs,
        ..
    } = l;
    let static_leg = leg(move || {
        let _held = Guard::new(&static_mcs);
        true
    });
    let mut instr_on_inner = dyn_leg(l.instr_on);
    let instr_on: Leg = Box::new(move || {
        telemetry::set_profiling(true);
        let r = instr_on_inner();
        telemetry::set_profiling(false);
        r
    });
    let libasl_epoch = leg(move || {
        asl_core::epoch::with_epoch(crate::sim::EPOCH_ID, EPOCH_SLO_NS, || {
            let _held = in_epoch.lock();
        });
        true
    });
    let timed = leg(move || match timed_mcs.try_lock_for(1_000_000) {
        Some(token) => {
            timed_mcs.unlock(token);
            true
        }
        None => false,
    });
    let clock_now = leg(|| {
        black_box(now_ns());
        true
    });
    let work_unit = leg(|| {
        asl_runtime::work::execute_raw_units(WORK_UNITS_PER_OP);
        true
    });
    let all = [
        static_leg,
        dyn_leg(l.dyn_mcs),
        dyn_leg(l.instr_off),
        instr_on,
        dyn_leg(l.gcr),
        dyn_leg(l.pthread),
        dyn_leg(l.libasl_max),
        libasl_epoch,
        timed,
        clock_now,
        work_unit,
    ];
    ACQUIRE_RUNGS
        .iter()
        .copied()
        .chain(["clock_now", "work_unit"])
        .zip(all)
        .collect()
}

struct Pass {
    /// Batch statistics per leg, in [`legs`] order.
    rungs: Vec<(&'static str, Batches)>,
    attempted: u64,
    failed: u64,
    setup: SetupTime,
    spans: Vec<trace::Span>,
}

impl Pass {
    fn low(&self, name: &str) -> f64 {
        let found = self.rungs.iter().find(|(n, _)| *n == name);
        found.expect("known rung").1.low
    }

    /// Geometric mean of the nine ladder rungs' lower deciles.
    fn ladder_geomean(&self) -> f64 {
        let lows: Vec<f64> = ACQUIRE_RUNGS.iter().map(|r| self.low(r)).collect();
        geomean(&lows)
    }
}

fn pass(seconds: f64) -> Pass {
    let (locks, setup) = timed_setup(SETUP_REPS, SETUP_BUILDS, build_locks);
    let mut legs = legs(locks);
    // Warm-up: one untimed batch of every rung (faults in queue nodes,
    // trains branches).
    for (_, leg) in &mut legs {
        leg();
    }
    let mut means: Vec<Vec<f64>> = vec![Vec::new(); legs.len()];
    let mut attempted = 0;
    let mut failed = 0;
    let mut round = 0u64;
    let started = Instant::now();
    // At least three rounds, so that even a probe-length pass has a
    // spread to take a decile of.
    while round < 3 || started.elapsed().as_secs_f64() < seconds {
        for (i, (name, leg)) in legs.iter_mut().enumerate() {
            let span = trace::begin_on("batch", name, round, trace::stamp());
            let (mean, bad) = leg();
            trace::end(span, trace::stamp());
            means[i].push(mean);
            attempted += BATCH_OPS;
            failed += bad;
        }
        round += 1;
    }
    let rungs = legs
        .iter()
        .zip(means)
        .map(|((name, _), m)| (*name, Batches::of(m)))
        .collect();
    Pass {
        rungs,
        attempted,
        failed,
        setup,
        spans: trace::take_thread(),
    }
}

/// The untraced run.
pub fn run(seconds: f64, _seed: u64) -> Outcome {
    // The ladder has no generated inputs: the seed selects nothing.
    let p = pass(seconds);
    let h = Clock::Host;
    // Gated values are rescaled to the reference machine speed with the
    // co-measured work-unit rung (see `workload::speed_factor`).
    let unit_ns = p.low("work_unit") / WORK_UNITS_PER_OP as f64;
    let k = speed_factor(unit_ns);
    let headline = p.low(HEADLINE) * k;
    let ladder = p.ladder_geomean() * k;
    let mut detail = vec![
        Metric::new("uncontended_ns_per_op", headline, "ns", h).with_note(format!(
            "libasl-60us inside with_epoch: lower decile {:.2} ns, x{k:.4} to the reference work unit",
            p.low(HEADLINE)
        )),
        Metric::new("ladder_geomean_ns", ladder, "ns", h).with_note(format!(
            "geomean of the nine rungs' lower deciles {:.2} ns, x{k:.4}",
            p.ladder_geomean()
        )),
        Metric::new("work_unit_ns", unit_ns, "ns", h)
            .with_note(format!("reference {REFERENCE_UNIT_NS} ns")),
        p.setup.detail(),
    ];
    for (name, b) in &p.rungs {
        detail.push(Metric::new(format!("rung.{name}_ns"), b.low, "ns", h).with_note(b.note()));
    }
    Outcome {
        e2e: EndToEndValues {
            throughput_ops_s: 1e9 / headline,
            speedup_vs_baseline: p.low(BASELINE) / p.low(HEADLINE),
            latency_over_slo: ladder / LADDER_BUDGET_NS,
            setup_s: p.setup.total_s(),
        },
        clock: h,
        detail,
        attempted: p.attempted,
        failed: p.failed,
    }
}

/// The traced run: an untraced reference pass, then a pass with a
/// span around every batch.
pub fn layers(seconds: f64, _seed: u64) -> Layers {
    let plain = pass(seconds / 2.0);
    trace::set_enabled(true);
    let traced = pass(seconds / 2.0);
    trace::set_enabled(false);

    let h = Clock::Host;
    let mut metrics = Vec::new();
    for rung in ACQUIRE_RUNGS {
        let (_, b) = traced
            .rungs
            .iter()
            .find(|(n, _)| *n == rung)
            .expect("rung ran");
        metrics.push(Metric::new(format!("acquire.{rung}_ns"), b.low, "ns", h).with_note(b.note()));
    }
    let low = |name| traced.low(name);
    for (tax, value) in [
        ("dyn", low("dyn_mcs") - low("static_mcs")),
        ("instr", low("instr_off_mcs") - low("dyn_mcs")),
        ("gcr", low("gcr_mcs") - low("dyn_mcs")),
        ("epoch", low("libasl_epoch") - low("libasl_max")),
        ("timed", low("timed_mcs") - low("static_mcs")),
    ] {
        metrics.push(Metric::new(format!("acquire.{tax}_tax_ns"), value, "ns", h));
    }
    metrics.extend([
        Metric::new("runtime.clock_now_ns", low("clock_now"), "ns", h),
        Metric::new(
            "runtime.work_unit_ns",
            low("work_unit") / WORK_UNITS_PER_OP as f64,
            "ns",
            h,
        ),
        Metric::new(
            "trace.host-acquire.overhead_share",
            overhead_share(traced.ladder_geomean(), plain.ladder_geomean()),
            "share",
            h,
        )
        .with_note("traced / untraced ladder geomean - 1; spans are per batch"),
    ]);
    let (roots, bad) = trace::check_attribution(&traced.spans);
    Layers {
        metrics,
        logs: vec![ThreadLog {
            cell: "host-acquire/ladder".into(),
            thread: 0,
            clock: h,
            spans: traced.spans,
        }],
        attempted: plain.attempted + traced.attempted + roots,
        failed: plain.failed + traced.failed + bad,
    }
}
