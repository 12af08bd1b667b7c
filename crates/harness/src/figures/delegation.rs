//! `delegation` — ASL reordering vs the delegation family on a
//! skewed-hold-time workload.
//!
//! One *hog* worker holds the lock 10× longer than everyone else —
//! the regime where the §5 trade-off between SLO-aware reordering and
//! delegation actually bites. Delegation executes the hog's long
//! critical section at executor speed but lets it re-enter
//! immediately; the usage-fair banning combiner (`fc-ban`) charges
//! the hog its overage instead. For every lock we report throughput
//! plus the per-thread fairness spread: the hog's share of completed
//! ops and the min/max share across workers (an even spread is
//! 1/threads each; a classic combiner lets the hog starve the rest of
//! lock *time* while op shares stay deceptively flat, so the ban
//! shows up as the hog's share dropping below its unbanned value).
//!
//! The sweep crosses {mcs, libasl-100us, libasl-max, flatcomb,
//! ccsynch, rcl, fc-ban} × thread counts; `--out` lands the samples
//! in `BENCH_delegation.json` (`<lock>` rows carry ops/s;
//! `<lock>@share=hog|min|max` and `<lock>@usage=hog` rows carry
//! share fractions, not ops/s).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use asl_core::epoch;
use asl_locks::delegation::{DelegationHandle, DelegationLock};
use asl_locks::{CcSynch, FcBan, FlatCombiner, RclLock, SlotHandle};
use asl_runtime::topology::Topology;
use asl_runtime::work::execute_units;
use asl_runtime::CacheLineArena;

use crate::locks::LockSpec;
use crate::report::{fmt_ops, Table};
use crate::runner::{run_timed_with_setup, RunResult};
use crate::scenario::{CS_UNITS_PER_LINE, FIG1_LINES, FIG1_NCS_UNITS};

use super::Profile;

/// The hog's critical sections are this many times longer.
const HOG_FACTOR: u64 = 10;

/// Critical-section units of one Figure-1 section.
pub(crate) const BASE_UNITS: u64 = FIG1_LINES as u64 * CS_UNITS_PER_LINE;

/// Worker 0 is the hog.
fn section_units(worker: usize) -> u64 {
    if worker == 0 {
        BASE_UNITS * HOG_FACTOR
    } else {
        BASE_UNITS
    }
}

/// (hog, min, max) shares of completed ops.
fn shares(per_worker: &[u64]) -> (f64, f64, f64) {
    let total = per_worker.iter().sum::<u64>().max(1) as f64;
    let hog = per_worker.first().copied().unwrap_or(0) as f64 / total;
    let min = per_worker.iter().min().copied().unwrap_or(0) as f64 / total;
    let max = per_worker.iter().max().copied().unwrap_or(0) as f64 / total;
    (hog, min, max)
}

/// The hog's share of *lock usage* (CS time): its ops are
/// `HOG_FACTOR`× longer, so weight them accordingly. This is the
/// quantity usage-fair banning drives toward 1/threads.
fn hog_usage(per_worker: &[u64]) -> f64 {
    let hog = per_worker.first().copied().unwrap_or(0) * HOG_FACTOR;
    let rest: u64 = per_worker.iter().skip(1).sum();
    hog as f64 / ((hog + rest).max(1)) as f64
}

/// Drive a delegation lock natively through the timed runner. Handles
/// are registered up front in worker order — worker 0, the hog, owns
/// slot 0, and a slot's place in the executor's scan decides how soon
/// its owner is back for the next pass, so leaving the order to thread
/// start-up would move the shares this figure reports. Each worker
/// takes its handle in `setup` and `op` submits through it (returning
/// the latency to record).
pub(crate) fn drive_delegated<L: DelegationLock>(
    profile: &Profile,
    topo: &Topology,
    lock: &L,
    workers: usize,
    op: impl Fn(&L::Handle, usize) -> u64 + Sync,
) -> RunResult {
    let handles = register(lock, workers);
    run_timed_with_setup(
        &profile.config_on(topo.clone(), workers),
        |w| take(&handles[w]),
        |w, handle| op(handle, w),
    )
}

/// [`drive_delegated`] for an RCL lock: the server is worker 0, on big
/// core 0 for the run, and serves from its `setup` until the last
/// client's state drops; the clients are workers 1.. — the "wastes a
/// precious big core" configuration. `op` and the result see the
/// clients only, numbered from 0.
pub(crate) fn drive_rcl<F>(
    profile: &Profile,
    topo: &Topology,
    lock: &RclLock<(), u64, (), F>,
    clients: usize,
    op: impl Fn(&SlotHandle<(), u64, (), F, true, false>, usize) -> u64 + Sync,
) -> RunResult
where
    F: Fn(&mut (), u64) + Send + Sync + 'static,
{
    /// Stops the server as the last client's state drops.
    struct LastOut<'a>(&'a AtomicUsize, &'a (dyn Fn() + Sync));
    impl Drop for LastOut<'_> {
        fn drop(&mut self) {
            // Relaxed: a count that publishes nothing; every op a
            // client published was served before its `apply` returned.
            if self.0.fetch_sub(1, Ordering::Relaxed) == 1 {
                (self.1)();
            }
        }
    }

    let handles = register(lock, clients);
    let left = AtomicUsize::new(clients);
    let stop = || lock.shutdown();
    let mut r = run_timed_with_setup(
        &profile.config_on(topo.clone(), clients + 1),
        |w| match w {
            0 => {
                lock.serve();
                None
            }
            _ => Some((take(&handles[w - 1]), LastOut(&left, &stop))),
        },
        // The server's window has closed by the time `serve` returns.
        |w, client| client.as_ref().map_or(0, |(h, _)| op(h, w - 1)),
    );
    r.per_worker_ops.remove(0);
    r.window_traces.remove(0);
    r
}

/// `n` handles of `lock`, claimed in order, each to be taken once.
fn register<L: DelegationLock>(lock: &L, n: usize) -> Vec<Mutex<Option<L::Handle>>> {
    (0..n)
        .map(|_| Mutex::new(Some(lock.try_register().expect("delegation slot"))))
        .collect()
}

fn take<H>(slot: &Mutex<Option<H>>) -> H {
    slot.lock()
        .expect("handle slot")
        .take()
        .expect("handle taken once")
}

/// The apply function of the delegation locks these figures drive:
/// an op is the critical section's emulated work units, run after
/// the same cache-line RMW as the guard path's critical section.
pub(crate) fn delegated_section() -> impl Fn(&mut (), u64) + Send + Sync + 'static {
    let arena = CacheLineArena::new(FIG1_LINES);
    move |_, units| {
        arena.rmw(0, FIG1_LINES);
        execute_units(units);
    }
}

/// One delegation-lock cell of the sweep.
fn run_delegation_lock(
    profile: &Profile,
    topo: &Topology,
    name: &str,
    threads: usize,
) -> RunResult {
    let apply = delegated_section();
    fn op<H: DelegationHandle<Op = u64>>(handle: &H, worker: usize) -> u64 {
        handle.apply(section_units(worker));
        execute_units(FIG1_NCS_UNITS);
        0
    }
    match name {
        "flatcomb" => drive_delegated(profile, topo, &FlatCombiner::new((), apply), threads, op),
        "ccsynch" => drive_delegated(profile, topo, &CcSynch::new((), apply), threads, op),
        "fc-ban" => drive_delegated(profile, topo, &FcBan::new((), apply), threads, op),
        // The server owns big core 0 (so at 8 requested threads only
        // 7 clients run).
        "rcl" => {
            let clients = threads.min(topo.len() - 1);
            drive_rcl(profile, topo, &RclLock::new((), apply), clients, op)
        }
        other => unreachable!("unknown delegation lock {other}"),
    }
}

/// Drive a registry spec through the guard API on the same workload
/// (epoch-wrapped when the spec carries an SLO).
fn run_guard_spec(
    profile: &Profile,
    topo: &Topology,
    spec: &LockSpec,
    threads: usize,
) -> RunResult {
    let lock = spec.make_dyn();
    let arena = CacheLineArena::new(FIG1_LINES);
    let slo = spec.epoch_slo();
    run_timed_with_setup(
        &profile.config_on(topo.clone(), threads),
        section_units,
        |_, units| {
            let critical = || {
                let _held = lock.lock();
                arena.rmw(0, FIG1_LINES);
                execute_units(*units);
            };
            match slo {
                Some(slo) => epoch::with_epoch(0, slo, critical),
                None => critical(),
            }
            execute_units(FIG1_NCS_UNITS);
            0
        },
    )
}

/// The `delegation` figure: reordering vs delegation under one
/// 10×-hold-time hog, with per-thread fairness shares.
pub fn delegation(profile: &Profile) -> Vec<Table> {
    let topo = Topology::apple_m1();
    let guard_specs = [
        LockSpec::Mcs,
        LockSpec::asl(Some(100_000)),
        LockSpec::asl(None),
    ];
    let delegated = ["flatcomb", "ccsynch", "rcl", "fc-ban"];

    let mut table = Table::new(
        "delegation",
        "reordering vs delegation, skewed hold times (worker 0 holds 10x longer)",
        &[
            "lock",
            "threads",
            "thpt",
            "thpt_ops_s",
            "hog_share",
            "min_share",
            "max_share",
            "hog_usage",
        ],
    );
    for &threads in &[2usize, 4, 8] {
        let mut record = |label: &str, out: &RunResult| {
            let thpt = out.throughput;
            let (hog, min, max) = shares(&out.per_worker_ops);
            let usage = hog_usage(&out.per_worker_ops);
            table.push_row(vec![
                label.to_string(),
                threads.to_string(),
                fmt_ops(thpt),
                format!("{thpt:.0}"),
                format!("{hog:.3}"),
                format!("{min:.3}"),
                format!("{max:.3}"),
                format!("{usage:.3}"),
            ]);
            table.push_sample(label, threads, thpt);
            table.push_sample(&format!("{label}@share=hog"), threads, hog);
            table.push_sample(&format!("{label}@share=min"), threads, min);
            table.push_sample(&format!("{label}@share=max"), threads, max);
            table.push_sample(&format!("{label}@usage=hog"), threads, usage);
        };
        for spec in &guard_specs {
            record(
                &spec.label(),
                &run_guard_spec(profile, &topo, spec, threads),
            );
        }
        for name in delegated {
            record(name, &run_delegation_lock(profile, &topo, name, threads));
        }
    }
    table.note("worker 0 is the hog (10x CS length); shares are fractions of completed ops");
    table.note("hog_usage weights the hog's ops 10x: its share of lock *time* (fair = 1/threads)");
    table.note("fc-ban evens usage by banning the hog for its overage, so its op share drops too");
    table.note("rcl: server burns big core 0, so the 8-thread cell runs 7 clients");
    table.note("@share=hog/min/max sample rows carry fractions, not ops/s");
    vec![table]
}
