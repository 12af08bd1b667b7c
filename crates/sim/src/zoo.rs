//! The simulator's timed run and its standard contended-lock workload.
//!
//! [`run_timed`] is the workspace's one warm-up → measure → done loop:
//! every virtual thread repeats an operation until
//! [`ZooConfig::duration_ns`], and the latencies the operations return
//! land in one [`RunResult`], split by core class. The paper figures
//! (the harness runner), the tests' jittered cells and [`run_lock`] are
//! calls to it.
//!
//! [`run_lock`] is that loop with one operation: *acquire → critical
//! section → release → non-critical section* on one **real** lock,
//! plus the grant order the threads log as they go. It is the one
//! workload that pays a lock hand-off
//! ([`crate::exec::CostModel::handoff_ns`], as a `busy_wait_ns`): the
//! `repro sim-*` tables do, the paper figures, the `amp-*` benchmark
//! workloads and the torture sweep do not.

use std::sync::{Arc, Mutex};

use asl_core::epoch::{take_window_trace, with_epoch, WindowSample};
use asl_locks::plain::PlainLock;
use asl_runtime::clock::{busy_wait_ns, now_ns};
use asl_runtime::registry::is_big_core;
use asl_runtime::stats::Samples;
use asl_runtime::topology::CoreKind;
use asl_runtime::work::execute_units;

use crate::exec::{run_threads, ZooConfig, SIM_EPOCH_ID};

/// Per-class and overall outcome of a [`run_timed`] run. Every field
/// but `telemetry` is a deterministic function of the configuration
/// and the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Operations completed inside the measurement window.
    pub total_ops: u64,
    /// Operations per virtual second of the measurement window.
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
    /// Final virtual time (max over threads).
    pub virtual_ns: u64,
}

/// Run `op` repeatedly on every virtual thread of `cfg` until
/// `cfg.duration_ns`, recording the ops that start at or after
/// `warmup_ns`.
///
/// `setup` runs once on each worker's virtual thread, before its first
/// operation, and builds the value every `op` of that worker gets
/// (`&mut`, so a worker's RNG advances from op to op); the value drops
/// on the same thread once the worker's window has closed. Both get the
/// worker index. `op` performs one operation (one epoch / one request)
/// and returns the latency to record in virtual nanoseconds. An op
/// counts if it *started* inside the measurement window. A panic in
/// `setup` or `op` reaches the caller ([`run_threads`]).
pub fn run_timed<W, S, F>(cfg: &ZooConfig, warmup_ns: u64, setup: S, op: F) -> RunResult
where
    S: Fn(usize) -> W + Sync,
    F: Fn(usize, &mut W) -> u64 + Sync,
{
    struct WorkerOut {
        big: bool,
        latencies: Vec<u64>,
        trace: Vec<WindowSample>,
    }

    let outs: Mutex<Vec<Option<WorkerOut>>> = Mutex::new((0..cfg.threads).map(|_| None).collect());
    let virtual_ns = run_threads(cfg, |w| {
        let mut state = setup(w);
        let mut latencies = Vec::new();
        loop {
            let start = now_ns();
            if start >= cfg.duration_ns {
                break;
            }
            let latency = op(w, &mut state);
            if start >= warmup_ns {
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
    let window_ns = cfg.duration_ns.saturating_sub(warmup_ns);
    RunResult {
        total_ops,
        throughput: total_ops as f64 * 1e9 / window_ns.max(1) as f64,
        overall: overall.into(),
        big: big.into(),
        little: little.into(),
        big_ops,
        little_ops,
        per_worker_ops: outs.iter().map(|o| o.latencies.len() as u64).collect(),
        window_traces: outs.into_iter().map(|o| o.trace).collect(),
        telemetry: asl_locks::telemetry::snapshots(),
        virtual_ns,
    }
}

/// Outcome of [`run_lock`]: the timed run, whose latencies are the
/// acquire waits, and what the grant order adds. Every field but
/// `run.telemetry` is a deterministic function of the [`ZooConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ZooResult {
    /// The timed run; each op's latency is its acquire wait.
    pub run: RunResult,
    /// Holder thread id per acquisition, in grant order (exact
    /// short-term fairness trace).
    pub grants: Vec<u32>,
    /// Lock handoffs that stayed within a socket.
    pub handoffs_local: u64,
    /// Lock handoffs that crossed sockets.
    pub handoffs_remote: u64,
    /// Longest run of consecutive grants within one core class.
    pub max_class_batch: u64,
}

impl ZooResult {
    /// Fraction of handoffs that crossed sockets.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.handoffs_local + self.handoffs_remote;
        if total == 0 {
            0.0
        } else {
            self.handoffs_remote as f64 / total as f64
        }
    }
}

/// [`run_timed`] with no warm-up over one op on `lock`: acquire, pay
/// the hand-off when the previous grant went to another thread, run
/// the critical section, release, think. The op is an epoch when
/// `slo_ns` is set and returns its acquire wait. The same config and
/// lock type produce the same [`ZooResult`], grant trace included.
///
/// ```
/// use std::sync::Arc;
/// use asl_runtime::Topology;
/// use asl_sim::exec::ZooConfig;
/// use asl_sim::zoo::run_lock;
///
/// let cfg = ZooConfig::quick(Topology::apple_m1(), 4, 11);
/// let a = run_lock(&cfg, Arc::new(asl_locks::McsLock::new()));
/// let b = run_lock(&cfg, Arc::new(asl_locks::McsLock::new()));
/// assert!(a.run.total_ops > 0);
/// assert_eq!(a.grants, b.grants); // same seed ⇒ identical schedule
/// ```
pub fn run_lock(cfg: &ZooConfig, lock: Arc<dyn PlainLock>) -> ZooResult {
    let topo = &cfg.topology;
    let core = |tid: u32| topo.assignment_for_thread(tid as usize).id;
    // Grant order, written only by the thread holding the baton.
    let grants: Mutex<Vec<u32>> = Mutex::new(Vec::new());
    let run = run_timed(
        cfg,
        0,
        |_| (),
        |tid, ()| {
            let op = || {
                let t0 = now_ns();
                let token = lock.acquire();
                let wait = now_ns().saturating_sub(t0);
                let mut log = grants.lock().expect("grant log poisoned");
                let prev = log.last().copied();
                log.push(tid as u32);
                drop(log);
                // The lock's line comes over from the previous holder.
                if let Some(prev) = prev.filter(|&p| p as usize != tid) {
                    let cost = cfg.cost.handoff_ns(topo, core(prev), core(tid as u32));
                    if cost > 0 {
                        busy_wait_ns(cost);
                    }
                }
                execute_units(cfg.cs_units);
                lock.release(token);
                wait
            };
            let wait = match cfg.slo_ns {
                Some(slo) => with_epoch(SIM_EPOCH_ID, slo, op),
                None => op(),
            };
            execute_units(cfg.ncs_units);
            wait
        },
    );
    let grants = grants.into_inner().expect("grant log poisoned");

    let handoffs = grants.windows(2).filter(|p| p[0] != p[1]);
    let crosses = |p: &&[u32]| topo.socket_of(core(p[0])) != topo.socket_of(core(p[1]));
    let handoffs_remote = handoffs.clone().filter(crosses).count() as u64;
    let handoffs_local = handoffs.count() as u64 - handoffs_remote;

    let is_big = |tid: u32| topo.assignment_for_thread(tid as usize).kind == CoreKind::Big;
    let max_class_batch = grants
        .chunk_by(|&a, &b| is_big(a) == is_big(b))
        .map(|run| run.len() as u64)
        .max()
        .unwrap_or(0);

    ZooResult {
        run,
        grants,
        handoffs_local,
        handoffs_remote,
        max_class_batch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_runtime::topology::Topology;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::panic::catch_unwind;

    const WARMUP_NS: u64 = 100_000;
    const WINDOW_NS: u64 = 400_000;

    /// The harness runner's machine: the modeled M1, seed 1, a
    /// 100 µs warm-up before a 400 µs window.
    fn cfg(threads: usize) -> ZooConfig {
        ZooConfig {
            duration_ns: WARMUP_NS + WINDOW_NS,
            ..ZooConfig::quick(Topology::apple_m1(), threads, 1)
        }
    }

    /// `units` of work, timed on the virtual clock.
    fn timed_work(units: u64) -> u64 {
        let t0 = now_ns();
        execute_units(units);
        now_ns() - t0
    }

    fn worker_rng(w: usize) -> SmallRng {
        SmallRng::seed_from_u64(w as u64)
    }

    #[test]
    fn class_split_is_the_work_multiplier() {
        // One worker per core and no lock: an op's latency is its work,
        // stretched by the core's multiplier, plus the closing clock
        // read — exactly, on every op.
        const UNITS: u64 = 500;
        let clock_ns = crate::exec::CostModel::default().clock_read_ns;
        let r = run_timed(&cfg(8), WARMUP_NS, |_| (), |_, ()| timed_work(UNITS));
        let ratio = Topology::apple_m1().perf_ratio() as u64;
        assert_eq!(
            (r.big.percentile(0.0), r.big.max()),
            (UNITS + clock_ns, UNITS + clock_ns)
        );
        let little = ratio * UNITS + clock_ns;
        assert_eq!((r.little.percentile(0.0), r.little.max()), (little, little));

        // A worker's cycle is the op plus its three clock reads (the
        // loop's window check and the op's two): every worker of a
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
        // class. With no warm-up every op the loop starts is measured,
        // so each record must hold exactly the logged values and read
        // the nearest-rank percentile of them, not a bucket's bound.
        let nearest_rank = |mut v: Vec<u64>, p: f64| {
            v.sort_unstable();
            v[((p / 100.0 * v.len() as f64).ceil() as usize).max(1) - 1]
        };
        let logged = Mutex::new([Vec::new(), Vec::new()]);
        let r = run_timed(&cfg(8), 0, worker_rng, |_, rng| {
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
        let draws = || {
            let setups = Mutex::new(0);
            let seen = Mutex::new(Vec::new());
            let r = run_timed(
                &cfg(1),
                WARMUP_NS,
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
            run_timed(
                &cfg(2),
                WARMUP_NS,
                |w| assert_ne!(w, 1, "setup of worker 1"),
                |_, ()| timed_work(100),
            )
        });
        assert!(caught.is_err());
    }
}
