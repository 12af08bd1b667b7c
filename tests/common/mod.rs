//! The standard contended-lock workload of the simulator's execution
//! engine — `N` virtual threads cycling *non-critical section →
//! acquire → critical section → release* on one **real** lock — with
//! jittered section lengths.
//!
//! This is [`libasl::sim::exec::run_lock`]'s loop, rebuilt on
//! [`run_threads`] for one reason: `run_lock` (the `repro sim-*`
//! figures' workload, byte-pinned per seed) runs constant-length
//! sections, and identical threads looping over constant lengths
//! phase-lock in a noise-free simulator — which pattern they lock
//! into then depends on the seeded start stagger. Every section here
//! is drawn uniformly from ±[`JITTER_PCT`]% around its configured
//! length, per thread and per operation, from the config's seed, so a
//! cell is still a pure function of its [`ZooConfig`].
//!
//! [`run_engine`] is the same loop with a `dbsim` engine request as
//! the epoch body instead of one lock round-trip.

// Each test binary that includes this module uses its own subset.
#![allow(dead_code)]

use std::sync::{Arc, Mutex};

use libasl::dbsim::Engine;
use libasl::locks::plain::PlainLock;
use libasl::runtime::affinity::pinned;
use libasl::runtime::stats::percentile;
use libasl::runtime::work::execute_units;
use libasl::runtime::{is_big_core, now_ns};
use libasl::sim::exec::{run_threads, ZooConfig, SIM_EPOCH_ID};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Half-width of the uniform section-length jitter, in percent.
const JITTER_PCT: u64 = 25;

/// What one simulated cell measured (virtual time throughout).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Acquisitions per virtual second.
    pub throughput: f64,
    /// Acquisitions by big-core threads.
    pub big_ops: u64,
    /// Acquisitions by little-core threads.
    pub little_ops: u64,
    /// P99 acquire latency of big-core threads (ns).
    pub p99_big: u64,
    /// P99 acquire latency of little-core threads (ns).
    pub p99_little: u64,
    /// P99 acquire latency across all threads (ns).
    pub p99_overall: u64,
}

/// Virtual thread `tid`'s generator: a pure function of the cell's seed.
fn thread_rng(cfg: &ZooConfig, tid: usize) -> SmallRng {
    SmallRng::seed_from_u64(cfg.seed ^ ((tid as u64 + 1) << 32))
}

fn jittered(rng: &mut SmallRng, units: u64) -> u64 {
    let span = units * JITTER_PCT / 100;
    rng.gen_range(units - span..=units + span)
}

/// Run `cfg`'s workload on `lock`, on a helper thread pinned to one
/// CPU (the engine steps one virtual thread at a time; a second CPU
/// only adds a cross-CPU wake-up to every baton pass). With
/// `cfg.slo_ns` set, every operation is an epoch with that SLO, so
/// LibASL's window feedback runs live on the virtual clock.
pub fn run(cfg: &ZooConfig, lock: Arc<dyn PlainLock>) -> Cell {
    // Acquire latencies by class: [little, big].
    let waits: Mutex<[Vec<u64>; 2]> = Mutex::new([Vec::new(), Vec::new()]);
    pinned(0, || {
        run_threads(cfg, |tid| {
            let mut rng = thread_rng(cfg, tid);
            let mut mine = Vec::new();
            while now_ns() < cfg.duration_ns {
                let mut op = || {
                    let t0 = now_ns();
                    let token = lock.acquire();
                    mine.push(now_ns() - t0);
                    execute_units(jittered(&mut rng, cfg.cs_units));
                    lock.release(token);
                };
                match cfg.slo_ns {
                    Some(slo) => libasl::epoch::with_epoch(SIM_EPOCH_ID, slo, op),
                    None => op(),
                }
                execute_units(jittered(&mut rng, cfg.ncs_units));
            }
            waits.lock().expect("collector poisoned")[usize::from(is_big_core())].extend(mine);
        })
    });
    let [mut little, mut big] = waits.into_inner().expect("collector poisoned");
    let mut all: Vec<u64> = big.iter().chain(&little).copied().collect();
    Cell {
        throughput: all.len() as f64 / (cfg.duration_ns as f64 / 1e9),
        big_ops: big.len() as u64,
        little_ops: little.len() as u64,
        p99_big: percentile(&mut big, 99.0),
        p99_little: percentile(&mut little, 99.0),
        p99_overall: percentile(&mut all, 99.0),
    }
}

/// Epoch latencies (virtual ns, in order) of one thread of
/// [`run_engine`].
#[derive(Debug, Clone)]
pub struct ThreadEpochs {
    /// Whether the thread ran on a big core.
    pub big: bool,
    /// Latency of each epoch, start to end.
    pub latencies: Vec<u64>,
}

impl ThreadEpochs {
    /// Epochs over `slo_ns` among those after the first `skip`, and
    /// how many that leaves.
    pub fn misses_after(&self, skip: usize, slo_ns: u64) -> (usize, usize) {
        let rest = self.latencies.get(skip..).unwrap_or(&[]);
        (rest.iter().filter(|&&l| l > slo_ns).count(), rest.len())
    }
}

/// Run `engine` under `cfg`: every virtual thread loops *request →
/// think* (`cfg.ncs_units`, jittered) until `cfg.duration_ns`, each
/// request an epoch with `cfg.slo_ns` when that is set. Same pinning
/// and seeding as [`run`]; one entry per thread, in thread order.
pub fn run_engine(cfg: &ZooConfig, engine: &dyn Engine) -> Vec<ThreadEpochs> {
    let outs: Mutex<Vec<(usize, ThreadEpochs)>> = Mutex::new(Vec::new());
    pinned(0, || {
        run_threads(cfg, |tid| {
            let mut rng = thread_rng(cfg, tid);
            let mut latencies = Vec::new();
            loop {
                let t0 = now_ns();
                if t0 >= cfg.duration_ns {
                    break;
                }
                match cfg.slo_ns {
                    Some(slo) => libasl::epoch::with_epoch(SIM_EPOCH_ID, slo, || {
                        engine.run_request(&mut rng)
                    }),
                    None => engine.run_request(&mut rng),
                }
                latencies.push(now_ns() - t0);
                execute_units(jittered(&mut rng, cfg.ncs_units));
            }
            let out = ThreadEpochs {
                big: is_big_core(),
                latencies,
            };
            outs.lock().expect("collector poisoned").push((tid, out));
        })
    });
    let mut outs = outs.into_inner().expect("collector poisoned");
    outs.sort_by_key(|(tid, _)| *tid);
    outs.into_iter().map(|(_, out)| out).collect()
}
