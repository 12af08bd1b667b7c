//! The standard contended-lock workload, a driver over the engine:
//! [`run_lock`] cycles *non-critical section → acquire → critical
//! section → release* on one **real** lock and reads its exact
//! accounting into a [`ZooResult`]. The threads keep their own logs,
//! merged after the run. It is the one workload that pays a lock
//! hand-off ([`crate::exec::CostModel::handoff_ns`]): the `repro sim-*`
//! tables do, the paper figures, the `amp-*` benchmark workloads and the
//! torture sweep (bodies on [`crate::exec::run_threads`]) do not.

use std::sync::{Arc, Mutex};

use asl_core::epoch::{take_window_trace, with_epoch, WindowSample};
use asl_locks::plain::PlainLock;
use asl_runtime::stats::Samples;
use asl_runtime::topology::CoreKind;
use asl_runtime::work::execute_units;

use crate::exec::{run_machine, ZooConfig, SIM_EPOCH_ID};

/// Outcome of [`run_lock`]. Every field is a deterministic function
/// of the [`ZooConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ZooResult {
    /// Completed acquisitions.
    pub total_ops: u64,
    /// Acquisitions by big-core threads.
    pub big_ops: u64,
    /// Acquisitions by little-core threads.
    pub little_ops: u64,
    /// Acquisitions per thread (exact long-term fairness counts).
    pub per_thread_ops: Vec<u64>,
    /// Whether each thread ran on a big core.
    pub thread_is_big: Vec<bool>,
    /// Ops per *virtual* second.
    pub throughput: f64,
    /// Exact acquire-latency percentiles (virtual ns) by class.
    pub p50_big: u64,
    /// P99, big-core threads.
    pub p99_big: u64,
    /// P50, little-core threads.
    pub p50_little: u64,
    /// P99, little-core threads.
    pub p99_little: u64,
    /// P99 across all threads.
    pub p99_overall: u64,
    /// Worst acquire latency seen by a big-core thread.
    pub max_wait_big: u64,
    /// Worst acquire latency seen by a little-core thread.
    pub max_wait_little: u64,
    /// Lock handoffs that stayed within a socket.
    pub handoffs_local: u64,
    /// Lock handoffs that crossed sockets.
    pub handoffs_remote: u64,
    /// Holder thread id per acquisition, in grant order (exact
    /// short-term fairness trace).
    pub grants: Vec<u32>,
    /// Longest run of consecutive grants within one core class.
    pub max_class_batch: u64,
    /// Final virtual time (max over threads).
    pub virtual_ns: u64,
    /// Each thread's reorder-window trajectory
    /// ([`asl_core::epoch::take_window_trace`]): one sample per
    /// little-core epoch that ended while
    /// `asl_locks::telemetry::recording` was on, else empty.
    pub window_traces: Vec<Vec<WindowSample>>,
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

/// Run `threads` virtual threads cycling NCS → acquire → CS → release
/// on `lock` until `duration_ns` of virtual time has passed, each
/// operation an epoch when `slo_ns` is set. The loop's clock reads and
/// the hand-off charge go to the machine under any fault decorator: a
/// fault schedule perturbs the lock, not the measurement. The same
/// config and lock type produce the same [`ZooResult`], grant trace
/// included.
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
/// assert!(a.total_ops > 0);
/// assert_eq!(a.grants, b.grants); // same seed ⇒ identical schedule
/// ```
pub fn run_lock(cfg: &ZooConfig, lock: Arc<dyn PlainLock>) -> ZooResult {
    let topo = &cfg.topology;
    let core = |tid: u32| topo.assignment_for_thread(tid as usize).id;
    // Grant order, written only by the thread holding the baton.
    let grants: Mutex<Vec<u32>> = Mutex::new(Vec::new());
    let (virtual_ns, logs) = run_machine(cfg, |m, tid| {
        let mut waits = Vec::new();
        while m.clock(tid) < cfg.duration_ns {
            let mut op = || {
                let t0 = m.clock(tid);
                let token = lock.acquire();
                waits.push(m.clock(tid).saturating_sub(t0));
                let mut log = grants.lock().expect("grant log poisoned");
                let prev = log.last().copied();
                log.push(tid as u32);
                drop(log);
                // The lock's line comes over from the previous holder.
                if let Some(prev) = prev.filter(|&p| p as usize != tid) {
                    let cost = cfg.cost.handoff_ns(topo, core(prev), core(tid as u32));
                    if cost > 0 {
                        m.step(tid, cost, true);
                    }
                }
                execute_units(cfg.cs_units);
                lock.release(token);
            };
            match cfg.slo_ns {
                Some(slo) => with_epoch(SIM_EPOCH_ID, slo, op),
                None => op(),
            }
            execute_units(cfg.ncs_units);
        }
        (waits, take_window_trace())
    });
    let grants = grants.into_inner().expect("grant log poisoned");

    let thread_is_big: Vec<bool> = (0..cfg.threads)
        .map(|t| topo.assignment_for_thread(t).kind == CoreKind::Big)
        .collect();
    let per_thread_ops: Vec<u64> = logs.iter().map(|(w, _)| w.len() as u64).collect();
    let waits = |class: Option<bool>| -> Samples {
        let logs = logs.iter().zip(&thread_is_big);
        let logs = logs.filter(|&(_, &big)| class.is_none() || class == Some(big));
        Samples::from(
            logs.flat_map(|((w, _), _)| w.iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let (lat_big, lat_little, overall) = (waits(Some(true)), waits(Some(false)), waits(None));
    let big_ops = lat_big.len();
    let total_ops = overall.len();

    let handoffs = grants.windows(2).filter(|p| p[0] != p[1]);
    let crosses = |p: &&[u32]| topo.socket_of(core(p[0])) != topo.socket_of(core(p[1]));
    let handoffs_remote = handoffs.clone().filter(crosses).count() as u64;
    let handoffs_local = handoffs.count() as u64 - handoffs_remote;

    let max_class_batch = grants
        .chunk_by(|&a, &b| thread_is_big[a as usize] == thread_is_big[b as usize])
        .map(|run| run.len() as u64)
        .max()
        .unwrap_or(0);

    ZooResult {
        total_ops,
        big_ops,
        little_ops: total_ops - big_ops,
        per_thread_ops,
        thread_is_big,
        throughput: total_ops as f64 / (cfg.duration_ns as f64 / 1e9),
        p50_big: lat_big.percentile(50.0),
        p99_big: lat_big.percentile(99.0),
        p50_little: lat_little.percentile(50.0),
        p99_little: lat_little.percentile(99.0),
        p99_overall: overall.percentile(99.0),
        max_wait_big: lat_big.max(),
        max_wait_little: lat_little.max(),
        handoffs_local,
        handoffs_remote,
        grants,
        max_class_batch,
        virtual_ns,
        window_traces: logs.into_iter().map(|(_, trace)| trace).collect(),
    }
}
