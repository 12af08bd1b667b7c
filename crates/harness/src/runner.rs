//! Timed experiment runner, in virtual time.
//!
//! Reproduces the paper's measurement protocol on the deterministic
//! simulator ([`asl_sim::exec::run_threads`]): `n` virtual threads
//! bound big-cores-first on a modeled topology, a warm-up window, then
//! a fixed measurement window, both in virtual nanoseconds. Throughput
//! is completed operations per virtual second and latency, read off the
//! virtual clock, is collected per core class so reports can show Big
//! P99 / Little P99 / Overall P99 side by side. A run is a pure
//! function of its configuration and the simulator's seed: the same
//! call gives the same numbers on any host, whatever CPUs it lends the
//! process.
//!
//! This is the workspace's one warm-up → measure → done loop: every
//! timed figure is a call to [`run_timed_with_setup`]. What varies per
//! figure goes in the two closures — `setup` builds each worker's own
//! state on its virtual thread (its RNG, a delegation handle; a server
//! may serve from it), `op` runs one operation against it.

use std::cell::RefCell;
use std::sync::Mutex;

use asl_core::epoch::{take_window_trace, WindowSample};
use asl_runtime::clock::now_ns;
use asl_runtime::registry::is_big_core;
use asl_runtime::stats::Samples;
use asl_runtime::topology::Topology;
use asl_sim::exec::{run_threads, ZooConfig};

/// Schedule seed of every run: the simulator's seeded start stagger.
pub(crate) const SEED: u64 = 1;

/// Configuration for a timed run.
#[derive(Clone)]
pub struct RunConfig {
    /// The modeled machine.
    pub topology: Topology,
    /// Worker count (may exceed core count for over-subscription).
    pub threads: usize,
    /// Measurement window (virtual ns).
    pub duration_ns: u64,
    /// Warm-up (not recorded) before measuring (virtual ns).
    pub warmup_ns: u64,
}

/// Per-class and overall outcome of a timed run.
pub struct RunResult {
    /// Operations completed inside the measurement window.
    pub total_ops: u64,
    /// Operations per virtual second.
    pub throughput: f64,
    /// Latency of every measured op, across all workers.
    pub overall: Samples,
    /// Latency of the ops of workers on big cores.
    pub big: Samples,
    /// Latency of the ops of workers on little cores.
    pub little: Samples,
    /// Ops completed by big-core workers.
    pub big_ops: u64,
    /// Ops completed by little-core workers.
    pub little_ops: u64,
    /// Ops completed by each worker, in worker-index order (fairness
    /// figures: who got what share).
    pub per_worker_ops: Vec<u64>,
    /// Each worker's reorder-window trajectory
    /// ([`asl_core::epoch::take_window_trace`], warm-up included):
    /// empty unless `asl_locks::telemetry` recording is on.
    pub window_traces: Vec<Vec<WindowSample>>,
    /// Per-lock telemetry registered during the run (empty unless
    /// `asl_locks::telemetry` profiling is on — `repro --profile`).
    pub telemetry: Vec<(String, asl_locks::telemetry::TelemetrySnapshot)>,
}

thread_local! {
    /// Names of the machines this thread's runs modeled since the last
    /// [`take_machines`].
    static MACHINES: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The machines the calling thread's runs modeled since the last call,
/// in first-use order: what a figure's "virtual time" note names.
pub(crate) fn take_machines() -> Vec<&'static str> {
    MACHINES.with(|m| std::mem::take(&mut *m.borrow_mut()))
}

/// Run `op` repeatedly on every worker for the configured windows.
///
/// `setup` runs once on each worker's virtual thread, before its first
/// operation, and builds the value every `op` of that worker gets
/// (`&mut`, so a worker's RNG advances from op to op); the value drops
/// on the same thread once the worker's window has closed. Both get the
/// worker index. `op` performs one operation (one epoch / one request)
/// and returns the latency to record in (virtual) nanoseconds. An op
/// counts if it *started* inside the measurement window.
pub fn run_timed_with_setup<W, S, F>(cfg: &RunConfig, setup: S, op: F) -> RunResult
where
    S: Fn(usize) -> W + Sync,
    F: Fn(usize, &mut W) -> u64 + Sync,
{
    struct WorkerOut {
        big: bool,
        latencies: Vec<u64>,
        trace: Vec<WindowSample>,
    }

    MACHINES.with(|m| {
        let mut m = m.borrow_mut();
        if !m.contains(&cfg.topology.name()) {
            m.push(cfg.topology.name());
        }
    });
    let end = cfg.warmup_ns + cfg.duration_ns;
    let outs: Mutex<Vec<Option<WorkerOut>>> = Mutex::new((0..cfg.threads).map(|_| None).collect());
    let zoo = ZooConfig::quick(cfg.topology.clone(), cfg.threads, SEED);
    run_threads(&zoo, |w| {
        let mut state = setup(w);
        let mut latencies = Vec::new();
        loop {
            let start = now_ns();
            if start >= end {
                break;
            }
            let latency = op(w, &mut state);
            if start >= cfg.warmup_ns {
                latencies.push(latency);
            }
        }
        drop(state);
        outs.lock().expect("collector poisoned")[w] = Some(WorkerOut {
            big: is_big_core(),
            latencies,
            trace: take_window_trace(),
        });
    });

    let outs: Vec<WorkerOut> = outs
        .into_inner()
        .expect("collector poisoned")
        .into_iter()
        .map(|o| o.expect("every worker reports"))
        .collect();
    let class = |big: bool| -> Vec<u64> {
        let outs = outs.iter().filter(|o| o.big == big);
        outs.flat_map(|o| o.latencies.iter().copied()).collect()
    };
    let (big, little) = (class(true), class(false));
    let overall: Vec<u64> = big.iter().chain(&little).copied().collect();
    let (big_ops, little_ops) = (big.len() as u64, little.len() as u64);
    let total_ops = big_ops + little_ops;
    RunResult {
        total_ops,
        throughput: total_ops as f64 * 1e9 / cfg.duration_ns.max(1) as f64,
        overall: overall.into(),
        big: big.into(),
        little: little.into(),
        big_ops,
        little_ops,
        per_worker_ops: outs.iter().map(|o| o.latencies.len() as u64).collect(),
        window_traces: outs.into_iter().map(|o| o.trace).collect(),
        telemetry: asl_locks::telemetry::snapshots(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_runtime::work::execute_units;
    use std::panic::catch_unwind;

    const WINDOW_NS: u64 = 400_000;

    fn cfg(threads: usize) -> RunConfig {
        RunConfig {
            topology: Topology::apple_m1(),
            threads,
            duration_ns: WINDOW_NS,
            warmup_ns: 100_000,
        }
    }

    /// `units` of work, timed on the virtual clock.
    fn timed_work(units: u64) -> u64 {
        let t0 = now_ns();
        execute_units(units);
        now_ns() - t0
    }

    #[test]
    fn class_split_is_the_work_multiplier() {
        // One worker per core and no lock: an op's latency is its work,
        // stretched by the core's multiplier, plus the closing clock
        // read — exactly, on every op.
        const UNITS: u64 = 500;
        let clock_ns = asl_sim::exec::CostModel::default().clock_read_ns;
        let r = run_timed_with_setup(&cfg(8), |_| (), |_, ()| timed_work(UNITS));
        let ratio = Topology::apple_m1().perf_ratio() as u64;
        assert_eq!(
            (r.big.percentile(0.0), r.big.max()),
            (UNITS + clock_ns, UNITS + clock_ns)
        );
        let little = ratio * UNITS + clock_ns;
        assert_eq!((r.little.percentile(0.0), r.little.max()), (little, little));

        // A worker's cycle is the op plus its three clock reads (the
        // runner's window check and the op's two): every worker of a
        // class completes the window divided by it, give or take the
        // op the window edge cuts.
        for (w, &ops) in r.per_worker_ops.iter().enumerate() {
            let cycle = if w < 4 { UNITS } else { ratio * UNITS } + 3 * clock_ns;
            assert!(ops.abs_diff(WINDOW_NS / cycle) <= 1, "worker {w}: {ops}");
        }
        assert_eq!(r.total_ops, r.big_ops + r.little_ops);
        assert_eq!(r.overall.len(), r.total_ops);
        assert_eq!(r.per_worker_ops.iter().sum::<u64>(), r.total_ops);
        assert_eq!(r.throughput, r.total_ops as f64 * 1e9 / WINDOW_NS as f64);
    }

    #[test]
    fn tails_are_the_exact_nearest_rank_of_what_the_ops_returned() {
        // Ops of drawn lengths, each logging the latency it returns, by
        // class. With no warm-up every op the runner starts is
        // measured, so each record must hold exactly the logged values
        // and read the nearest-rank percentile of them, not a bucket's
        // bound.
        use crate::scenario::worker_rng;
        use rand::Rng;
        let nearest_rank = |mut v: Vec<u64>, p: f64| {
            v.sort_unstable();
            v[((p / 100.0 * v.len() as f64).ceil() as usize).max(1) - 1]
        };
        let logged = Mutex::new([Vec::new(), Vec::new()]);
        let cfg = RunConfig {
            warmup_ns: 0,
            ..cfg(8)
        };
        let r = run_timed_with_setup(&cfg, worker_rng, |_, rng| {
            let lat = timed_work(rng.gen_range(100..3_000));
            logged.lock().unwrap()[usize::from(is_big_core())].push(lat);
            lat
        });
        let [little, big] = logged.into_inner().unwrap();
        let all: Vec<u64> = big.iter().chain(&little).copied().collect();
        assert_eq!(r.overall.len(), all.len() as u64);
        let classes = [
            ("overall", &r.overall, all),
            ("big", &r.big, big),
            ("little", &r.little, little),
        ];
        for (class, record, logged) in classes {
            for p in [50.0, 99.0, 99.9] {
                assert_eq!(
                    record.percentile(p),
                    nearest_rank(logged.clone(), p),
                    "{class} p{p}"
                );
            }
        }
    }

    #[test]
    fn worker_state_advances_across_ops_and_repeats_across_runs() {
        // The worker's RNG is seeded once, in `setup`: consecutive ops
        // of one worker draw different values (seeding inside `op`
        // replayed the first draw forever), and a second run draws the
        // same sequence, op for op.
        use crate::scenario::worker_rng;
        use rand::Rng;
        let draws = || {
            let setups = Mutex::new(0);
            let seen = Mutex::new(Vec::new());
            let r = run_timed_with_setup(
                &cfg(1),
                |w| {
                    *setups.lock().unwrap() += 1;
                    worker_rng(w)
                },
                |_, rng| {
                    seen.lock().unwrap().push(rng.gen::<u64>());
                    execute_units(100);
                    0
                },
            );
            assert_eq!(setups.into_inner().unwrap(), 1, "one setup per worker");
            (r.total_ops, seen.into_inner().unwrap())
        };
        let first = draws();
        assert_ne!(first.1[0], first.1[1], "one draw replayed");
        assert_eq!(first, draws(), "runs must repeat");
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = catch_unwind(|| {
            run_timed_with_setup(
                &cfg(2),
                |w| assert_ne!(w, 1, "setup of worker 1"),
                |_, ()| timed_work(100),
            )
        });
        assert!(caught.is_err());
    }
}
